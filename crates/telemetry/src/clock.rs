//! The clock abstraction separating *what* is measured from *when*.
//!
//! Instruments never read time themselves; anything time-shaped (an
//! export timestamp, a latency observation) is computed by the caller
//! against a [`Clock`] and handed to the instrument as a plain number.
//! That is what lets the same instrument record simulated time inside
//! the discrete-event engine and monotonic wall-clock time inside the
//! live TCP transport without knowing which world it lives in.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic microsecond clock.
///
/// Implementations must be monotone non-decreasing; the epoch is
/// implementation-defined (process start for [`WallClock`], simulation
/// time zero for [`ManualClock`]). Consumers only compare and subtract
/// readings.
pub trait Clock: Send + Sync {
    /// Microseconds since this clock's epoch.
    fn now_us(&self) -> u64;
}

/// Wall-clock time: monotonic microseconds since construction.
///
/// Used by the live stack (the node binary's stats listener) where
/// telemetry timestamps must reflect real elapsed time.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// An externally driven clock: simulated time.
///
/// The discrete-event engine (or any other owner of a virtual timeline)
/// advances it explicitly with [`set_us`](ManualClock::set_us); readers
/// see the latest published instant. Stores are relaxed — telemetry
/// timestamps are observability data, not synchronization edges.
#[derive(Debug, Default)]
pub struct ManualClock {
    us: AtomicU64,
}

impl ManualClock {
    /// A clock at microsecond zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish the current simulated time in microseconds.
    ///
    /// `fetch_max` keeps the clock monotone even if two shards publish
    /// out of order.
    pub fn set_us(&self, us: u64) {
        self.us.fetch_max(us, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.us.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_follows_sets_and_never_rewinds() {
        let c = ManualClock::new();
        assert_eq!(c.now_us(), 0);
        c.set_us(1_000);
        assert_eq!(c.now_us(), 1_000);
        c.set_us(500); // stale publish must not rewind
        assert_eq!(c.now_us(), 1_000);
        c.set_us(2_000);
        assert_eq!(c.now_us(), 2_000);
    }

    #[test]
    fn clocks_are_object_safe() {
        let clocks: Vec<Box<dyn Clock>> =
            vec![Box::new(WallClock::new()), Box::new(ManualClock::new())];
        for c in &clocks {
            let _ = c.now_us();
        }
    }
}
