//! Simulated time.
//!
//! Virtual time is represented in seconds as `f64`. Two newtypes keep
//! instants and durations from being confused: [`SimTime`] is a point on the
//! simulation clock, [`SimDuration`] is a span. Both are `Copy`, totally
//! ordered (NaN is forbidden by construction through the public API), and
//! support the obvious arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant on the simulation clock, in seconds since the start of the
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(pub(crate) f64);

/// A span of simulated time, in seconds. May not be negative.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant from seconds since the epoch.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid SimTime: {secs}");
        SimTime(secs)
    }

    /// Creates an instant from hours since the epoch.
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * 3600.0)
    }

    /// Seconds since the epoch.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Hours since the epoch.
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({}) is after self ({})",
            earlier.0,
            self.0
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating difference: zero if `earlier` is after `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration((self.0 - earlier.0).max(0.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a duration from seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "invalid SimDuration: {secs}"
        );
        SimDuration(secs)
    }

    /// Creates a duration from hours.
    pub fn from_hours(hours: f64) -> Self {
        Self::from_secs(hours * 3600.0)
    }

    /// Length in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Length in hours.
    pub fn as_hours(self) -> f64 {
        self.0 / 3600.0
    }

    /// True if this duration is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
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
        assert!(rhs.0 <= self.0, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // SimTime is constructed from finite values only, so total order holds.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let h = (self.0 / 3600.0).floor();
        let m = ((self.0 - h * 3600.0) / 60.0).floor();
        let s = self.0 - h * 3600.0 - m * 60.0;
        write!(f, "{h:02.0}:{m:02.0}:{s:06.3}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1.0 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else if self.0 < 3600.0 {
            write!(f, "{:.3}s", self.0)
        } else {
            write!(f, "{:.3}h", self.0 / 3600.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = SimTime::from_hours(2.0);
        assert_eq!(t.as_secs(), 7200.0);
        assert_eq!(t.as_hours(), 2.0);
        assert_eq!(SimDuration::from_hours(0.5).as_secs(), 1800.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10.0) + SimDuration::from_secs(5.0);
        assert_eq!(t.as_secs(), 15.0);
        assert_eq!((t - SimTime::from_secs(10.0)).as_secs(), 5.0);
        let mut u = SimTime::ZERO;
        u += SimDuration::from_secs(3.0);
        assert_eq!(u.as_secs(), 3.0);
        assert_eq!(
            (SimDuration::from_secs(4.0) / SimDuration::from_secs(2.0)),
            2.0
        );
        assert_eq!((SimDuration::from_secs(4.0) * 0.5).as_secs(), 2.0);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(5.0);
        let b = SimTime::from_secs(8.0);
        assert_eq!(b.since(a).as_secs(), 3.0);
        assert_eq!(a.saturating_since(b).as_secs(), 0.0);
    }

    #[test]
    #[should_panic]
    fn negative_time_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    #[should_panic]
    fn since_panics_on_backwards() {
        let _ = SimTime::from_secs(1.0).since(SimTime::from_secs(2.0));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [
            SimTime::from_secs(3.0),
            SimTime::from_secs(1.0),
            SimTime::from_secs(2.0),
        ];
        v.sort();
        assert_eq!(v[0].as_secs(), 1.0);
        assert_eq!(v[2].as_secs(), 3.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_secs(3661.5)), "01:01:01.500");
        assert_eq!(format!("{}", SimDuration::from_secs(0.0015)), "1.500ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2.0)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_hours(1.5)), "1.500h");
    }
}
