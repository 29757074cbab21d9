//! Fixed-point time stamps.
//!
//! All traces in this workspace use unsigned nanosecond time stamps measured
//! from the start of the (simulated) application run.  Fixed-point time keeps
//! the codec compact and the simulator deterministic; the similarity metrics
//! convert to `f64` only at comparison time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A span of time, in nanoseconds.
///
/// `Duration` is a thin alias used where a value is a length of time rather
/// than a point in time; the two share the same representation.
pub type Duration = Time;

/// A point in time (or a span of time) in nanoseconds since the start of the
/// traced run.
///
/// Arithmetic saturates rather than panicking: the reduction algorithm
/// rebases time stamps by subtracting the segment start, and reconstruction
/// adds offsets back, so saturation gives well-defined behaviour for
/// degenerate inputs without poisoning whole experiments.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The zero time stamp.
    pub const ZERO: Time = Time(0);
    /// The maximum representable time stamp.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time stamp from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Creates a time stamp from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }

    /// Creates a time stamp from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Creates a time stamp from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000)
    }

    /// Raw nanosecond value.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value as a float in nanoseconds; the unit used by similarity metrics.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Builds a time stamp from a float nanosecond value, clamping negatives
    /// to zero.  Used when reconstructing traces from averaged segments.
    #[inline]
    pub fn from_f64(ns: f64) -> Self {
        if ns.is_nan() || ns <= 0.0 {
            Time(0)
        } else if ns >= u64::MAX as f64 {
            Time::MAX
        } else {
            Time(ns.round() as u64)
        }
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Absolute difference between two time stamps.
    #[inline]
    pub fn abs_diff(self, rhs: Time) -> Duration {
        Time(self.0.abs_diff(rhs.0))
    }

    /// Returns the larger of two time stamps.
    #[inline]
    pub fn max(self, rhs: Time) -> Time {
        Time(self.0.max(rhs.0))
    }

    /// Returns the smaller of two time stamps.
    #[inline]
    pub fn min(self, rhs: Time) -> Time {
        Time(self.0.min(rhs.0))
    }

    /// Scales the time stamp by a float factor (used by the averaging
    /// reducer and by noise models), clamping at the representable range.
    #[inline]
    pub fn scale(self, factor: f64) -> Time {
        Time::from_f64(self.0 as f64 * factor)
    }

    /// True if the time stamp is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        *self = *self - rhs;
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |acc, t| acc + t)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl From<u64> for Time {
    fn from(ns: u64) -> Self {
        Time(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units() {
        assert_eq!(Time::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Time::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(Time::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn saturating_arithmetic() {
        let a = Time::from_nanos(10);
        let b = Time::from_nanos(25);
        assert_eq!((b - a).as_nanos(), 15);
        assert_eq!((a - b).as_nanos(), 0, "subtraction saturates at zero");
        assert_eq!((Time::MAX + b), Time::MAX, "addition saturates at MAX");
    }

    #[test]
    fn abs_diff_is_symmetric() {
        let a = Time::from_nanos(40);
        let b = Time::from_nanos(17);
        assert_eq!(a.abs_diff(b), b.abs_diff(a));
        assert_eq!(a.abs_diff(b).as_nanos(), 23);
    }

    #[test]
    fn float_round_trip() {
        let t = Time::from_nanos(123_456_789);
        assert_eq!(Time::from_f64(t.as_f64()), t);
        assert_eq!(Time::from_f64(-1.0), Time::ZERO);
        assert_eq!(Time::from_f64(f64::NAN), Time::ZERO);
        assert_eq!(Time::from_f64(f64::INFINITY), Time::MAX);
    }

    #[test]
    fn scale_clamps() {
        let t = Time::from_nanos(100);
        assert_eq!(t.scale(0.5).as_nanos(), 50);
        assert_eq!(t.scale(-2.0), Time::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Time::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", Time::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", Time::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", Time::from_secs(5)), "5.000s");
    }

    #[test]
    fn sum_accumulates() {
        let total: Time = [1u64, 2, 3, 4].into_iter().map(Time::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }
}
