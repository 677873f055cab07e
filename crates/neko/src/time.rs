//! Simulated time.
//!
//! Time is kept as an integer number of **microseconds** so that the
//! event queue has a total, platform-independent order (no floating
//! point). The paper sets the network time unit to 1 ms; with
//! microsecond resolution, quantities such as a mistake recurrence
//! time of 10⁶ ms still fit comfortably in a `u64`.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in simulated time, measured from the start of the run.
///
/// ```
/// use neko::{Dur, Time};
///
/// let t = Time::ZERO + Dur::from_millis(3);
/// assert_eq!(t.as_micros(), 3_000);
/// assert_eq!(t - Time::ZERO, Dur::from_millis(3));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(u64);

/// A span of simulated time.
///
/// ```
/// use neko::Dur;
///
/// assert_eq!(Dur::from_millis(2) + Dur::from_micros(500), Dur::from_micros(2_500));
/// assert_eq!(Dur::from_millis(3).as_millis_f64(), 3.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dur(u64);

impl Time {
    /// The start of the simulation.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant (used as "never").
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time `us` microseconds after the start of the run.
    pub const fn from_micros(us: u64) -> Self {
        Time(us)
    }

    /// Creates a time `ms` milliseconds after the start of the run.
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000)
    }

    /// Creates a time `s` seconds after the start of the run.
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000)
    }

    /// This instant as integer microseconds since the start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant as (possibly fractional) milliseconds since the start.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant as (possibly fractional) seconds since the start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl Dur {
    /// The empty span.
    pub const ZERO: Dur = Dur(0);
    /// The largest representable span (used as "forever").
    pub const MAX: Dur = Dur(u64::MAX);

    /// A span of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Dur(us)
    }

    /// A span of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Dur(ms * 1_000)
    }

    /// A span of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        Dur(s * 1_000_000)
    }

    /// This span as integer microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This span as (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This span as (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Scales the span by `factor`, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> Dur {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "factor must be finite and non-negative"
        );
        Dur((self.0 as f64 * factor).round() as u64)
    }

    /// `true` if this is the empty span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    /// # Panics
    ///
    /// Panics (in debug builds) if `rhs` is later than `self`.
    fn sub(self, rhs: Time) -> Dur {
        debug_assert!(self >= rhs, "time went backwards: {self} - {rhs}");
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        *self = *self + rhs;
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(Time::from_millis(5).as_micros(), 5_000);
        assert_eq!(Time::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(Dur::from_millis(5).as_micros(), 5_000);
        assert_eq!(Dur::from_secs(2).as_micros(), 2_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_millis(10);
        assert_eq!(t + Dur::from_millis(5), Time::from_millis(15));
        assert_eq!(Time::from_millis(15) - t, Dur::from_millis(5));
        assert_eq!(t - Dur::from_millis(3), Time::from_millis(7));
        assert_eq!(Dur::from_millis(4) * 3, Dur::from_millis(12));
        assert_eq!(Dur::from_millis(9) / 3, Dur::from_millis(3));
        assert_eq!(Dur::from_millis(2).mul_f64(1.5), Dur::from_millis(3));
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(Time::MAX + Dur::from_millis(1), Time::MAX);
        assert_eq!(Dur::from_millis(1) - Dur::from_millis(2), Dur::ZERO);
    }

    #[test]
    fn ordering_and_display() {
        assert!(Time::from_millis(1) < Time::from_millis(2));
        assert!(Dur::from_micros(999) < Dur::from_millis(1));
        assert_eq!(Time::from_millis(1).to_string(), "1.000ms");
        assert_eq!(Dur::from_micros(1500).to_string(), "1.500ms");
    }
}
