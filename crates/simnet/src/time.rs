//! Simulated time: a monotonically increasing microsecond clock.
//!
//! Integer microseconds make event ordering exact (no floating-point
//! tie-break surprises) while comfortably covering multi-day simulations
//! (u64 µs ≈ 584 000 years).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, in microseconds since simulation
/// start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from fractional seconds (rounds to the nearest µs;
    /// negative values clamp to zero).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs.max(0.0) * 1e6).round() as u64)
    }

    /// Microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier` (saturating at zero).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from fractional seconds (rounds; clamps negatives).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * 1e6).round() as u64)
    }

    /// Span in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Span in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// Saturates at the end of time: a deadline past `u64::MAX` µs is one
/// that never comes, not an overflow.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_secs_f64(0.000001).as_micros(), 1);
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn deadlines_saturate_at_the_end_of_time() {
        let end = SimTime(u64::MAX);
        assert_eq!(SimTime::from_secs(1) + SimDuration(u64::MAX), end);
        let mut t = SimTime(u64::MAX - 1);
        t += SimDuration::from_secs(1);
        assert_eq!(t, end);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_secs_f64(), 10.5);
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_millis(500));
        assert_eq!(
            SimTime::from_secs(3).since(SimTime::from_secs(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        let mut t = SimTime::ZERO;
        t += SimDuration::from_secs(1);
        assert_eq!(t, SimTime::from_secs(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(SimTime::from_millis(1234).to_string(), "1.234s");
        assert_eq!(
            format!("{:?}", SimDuration::from_micros_test(1)),
            "0.000001s"
        );
    }

    impl SimDuration {
        fn from_micros_test(us: u64) -> Self {
            SimDuration(us)
        }
    }
}
