//! Open-loop send schedules.
//!
//! Event `i` of a schedule is due at `start + i * period` whatever happened to
//! earlier events, so a stall in the system under test delays later sends
//! instead of thinning them out. Callers time each operation from its due time,
//! and the schedule records how late the generator itself ran.

use std::time::{Duration, Instant};

/// A send that left this much after its due time counts as late.
pub const LATE_AFTER: Duration = Duration::from_millis(1);

/// A fixed-rate schedule of `count` events.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
    count: u64,
    next: u64,
    late_max: Duration,
    late_sends: u64,
}

impl OpenLoop {
    pub fn new(start: Instant, period: Duration, count: u64) -> OpenLoop {
        OpenLoop {
            start,
            period,
            count,
            next: 0,
            late_max: Duration::ZERO,
            late_sends: 0,
        }
    }

    /// Due time of the next event, or `None` once every event was taken.
    pub fn next_due(&self) -> Option<Instant> {
        (self.next < self.count).then(|| self.due(self.next))
    }

    /// Take the next event if it is due at `now`, returning its index and due time
    /// and recording how late it is taken.
    pub fn take(&mut self, now: Instant) -> Option<(u64, Instant)> {
        let due = self.next_due().filter(|&due| due <= now)?;
        let late = now - due;
        self.late_max = self.late_max.max(late);
        if late > LATE_AFTER {
            self.late_sends += 1;
        }
        let index = self.next;
        self.next += 1;
        Some((index, due))
    }

    /// The latest any event was taken after its due time.
    pub fn late_max(&self) -> Duration {
        self.late_max
    }

    /// Events taken more than [`LATE_AFTER`] after their due time.
    pub fn late_sends(&self) -> u64 {
        self.late_sends
    }

    fn due(&self, index: u64) -> Instant {
        self.start + self.period * index as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn on_time_sends_are_not_late() {
        let t0 = Instant::now();
        let mut s = OpenLoop::new(t0, 10 * MS, 3);
        assert_eq!(s.take(t0), Some((0, t0)));
        assert_eq!(s.take(t0 + 5 * MS), None, "event 1 is not due yet");
        assert_eq!(s.take(t0 + 10 * MS), Some((1, t0 + 10 * MS)));
        assert_eq!(s.late_sends(), 0);
        assert_eq!(s.late_max(), Duration::ZERO);
    }

    #[test]
    fn a_stalled_generator_reports_every_late_send() {
        let t0 = Instant::now();
        let mut s = OpenLoop::new(t0, 10 * MS, 5);
        // The generator wakes 35 ms in: events 0..=3 are all due and go out in a
        // burst, each timed from its own due time.
        let now = t0 + 35 * MS;
        let taken: Vec<u64> = std::iter::from_fn(|| s.take(now)).map(|(i, _)| i).collect();
        assert_eq!(taken, vec![0, 1, 2, 3]);
        assert_eq!(s.late_max(), 35 * MS);
        assert_eq!(s.late_sends(), 4);
        assert_eq!(s.next_due(), Some(t0 + 40 * MS));
        assert_eq!(s.take(t0 + 40 * MS), Some((4, t0 + 40 * MS)));
        assert_eq!(s.late_sends(), 4);
        assert_eq!(s.next_due(), None);
        assert_eq!(s.take(t0 + 100 * MS), None);
    }
}
