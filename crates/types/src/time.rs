//! Virtual time for the discrete-event cloud simulator.
//!
//! All simulated timestamps and durations are integer **microseconds**. This
//! makes event ordering exact (no float comparison hazards in the event heap)
//! and keeps every experiment bit-reproducible across runs and machines.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

const MICROS_PER_SEC: u64 = 1_000_000;

/// A span of virtual time, non-negative, microsecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Builds from fractional seconds, rounding to the nearest microsecond.
    /// Negative or non-finite inputs clamp to zero (durations are spans).
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((s * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Fractional hours (cloud bills are quoted hourly).
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s < 1e-3 {
            write!(f, "{}us", self.0)
        } else if s < 1.0 {
            write!(f, "{:.3}ms", s * 1e3)
        } else if s < 120.0 {
            write!(f, "{s:.3}s")
        } else {
            write!(f, "{:.2}min", s / 60.0)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(self.0 >= rhs.0, "SimDuration underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    /// Dimensionless ratio of two durations (e.g. slowdown factors).
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.as_secs_f64() / rhs.as_secs_f64()
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// An instant on the simulator's virtual clock (microseconds since start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds from whole microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds from fractional seconds since the epoch.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(SimDuration::from_secs_f64(s).as_micros())
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Duration since an earlier instant. Panics (debug) if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(self.0 >= earlier.0, "SimTime::since underflow");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating version of [`SimTime::since`].
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_micros())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_micros();
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        debug_assert!(self.0 >= rhs.as_micros(), "SimTime underflow");
        SimTime(self.0 - rhs.as_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_secs(3);
        let b = SimDuration::from_secs(1);
        assert_eq!(a + b, SimDuration::from_secs(4));
        assert_eq!(a - b, SimDuration::from_secs(2));
        assert_eq!(a * 2.0, SimDuration::from_secs(6));
        assert_eq!(a / 2.0, SimDuration::from_secs_f64(1.5));
        assert_eq!(a / b, 3.0);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn time_advances() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_secs(5);
        assert_eq!(t.as_secs_f64(), 5.0);
        assert_eq!(
            t.since(SimTime::from_secs_f64(2.0)),
            SimDuration::from_secs(3)
        );
        assert_eq!(
            SimTime::from_secs_f64(1.0).saturating_since(t),
            SimDuration::ZERO
        );
    }

    #[test]
    fn ordering_is_exact() {
        let t1 = SimTime::from_micros(10);
        let t2 = SimTime::from_micros(11);
        assert!(t1 < t2);
        assert_eq!(t1.max(t2), t2);
        assert_eq!(t1.min(t2), t1);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration::from_micros(500).to_string(), "500us");
        assert_eq!(SimDuration::from_millis(250).to_string(), "250.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_secs(600).to_string(), "10.00min");
    }

    #[test]
    fn sum_durations() {
        let total: SimDuration = (1..=3).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(6));
    }
}
