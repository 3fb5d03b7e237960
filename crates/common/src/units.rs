//! Strongly-typed units used throughout the simulator.
//!
//! The discrete-event simulator counts time in integer nanoseconds
//! ([`SimTime`], [`SimDuration`]); power, energy, throughput, and data volume
//! get dedicated newtypes so that a watts value can never be added to a QPS
//! value by accident (C-NEWTYPE).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Absolute simulated time, in nanoseconds since the start of the simulation.
///
/// `SimTime` is an *instant*; the difference of two instants is a
/// [`SimDuration`].
///
/// ```
/// use hercules_common::units::{SimTime, SimDuration};
/// let a = SimTime::from_micros(10);
/// let b = a + SimDuration::from_micros(5);
/// assert_eq!(b - a, SimDuration::from_micros(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant (used as an "infinity" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the simulation origin.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after the simulation origin.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant `millis` milliseconds after the simulation origin.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant `secs` seconds after the simulation origin.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since the simulation origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation origin, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since the simulation origin, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// A span of simulated time, in nanoseconds.
///
/// ```
/// use hercules_common::units::SimDuration;
/// let d = SimDuration::from_millis(2) + SimDuration::from_micros(500);
/// assert_eq!(d.as_micros_f64(), 2_500.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Creates a duration from fractional milliseconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative or not finite.
    pub fn from_millis_f64(millis: f64) -> Self {
        assert!(
            millis.is_finite() && millis >= 0.0,
            "invalid duration: {millis}"
        );
        SimDuration((millis * 1e6).round() as u64)
    }

    /// Total nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds in this duration.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds in this duration.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional microseconds in this duration.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Duration scaled by a non-negative factor, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale factor: {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}us", self.as_micros_f64())
        }
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
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
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
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

macro_rules! float_unit {
    ($(#[$meta:meta])* $name:ident, $suffix:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero value.
            pub const ZERO: $name = $name(0.0);

            /// Creates a value, validating that it is finite and non-negative.
            ///
            /// # Panics
            ///
            /// Panics if `v` is negative, NaN, or infinite.
            pub fn new(v: f64) -> Self {
                assert!(v.is_finite() && v >= 0.0, concat!("invalid ", stringify!($name), ": {}"), v);
                $name(v)
            }

            /// The raw float value.
            pub const fn value(self) -> f64 {
                self.0
            }

            /// The maximum of two values.
            pub fn max(self, other: Self) -> Self {
                $name(self.0.max(other.0))
            }

            /// The minimum of two values.
            pub fn min(self, other: Self) -> Self {
                $name(self.0.min(other.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.2}{}", self.0, $suffix)
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }
    };
}

float_unit!(
    /// Electrical power in watts.
    ///
    /// ```
    /// use hercules_common::units::Watts;
    /// let total: Watts = [Watts(86.0), Watts(28.0)].into_iter().sum();
    /// assert_eq!(total, Watts(114.0));
    /// ```
    Watts,
    "W"
);

float_unit!(
    /// Energy in joules.
    Joules,
    "J"
);

float_unit!(
    /// Throughput in queries per second.
    ///
    /// A *query* here is a paper-sense inference query (one user, `size`
    /// candidate items), not a sub-query or a batch.
    Qps,
    "QPS"
);

/// A volume of data in bytes.
///
/// ```
/// use hercules_common::units::MemBytes;
/// assert_eq!(MemBytes::from_gib(2).as_bytes(), 2 * 1024 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MemBytes(u64);

impl MemBytes {
    /// Zero bytes.
    pub const ZERO: MemBytes = MemBytes(0);

    /// Creates a byte count.
    pub const fn from_bytes(b: u64) -> Self {
        MemBytes(b)
    }

    /// Creates a byte count from mebibytes.
    pub const fn from_mib(m: u64) -> Self {
        MemBytes(m * 1024 * 1024)
    }

    /// Creates a byte count from gibibytes.
    pub const fn from_gib(g: u64) -> Self {
        MemBytes(g * 1024 * 1024 * 1024)
    }

    /// Total bytes.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Total bytes as a float (for bandwidth arithmetic).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Fractional gibibytes.
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Fractional mebibytes.
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: MemBytes) -> MemBytes {
        MemBytes(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for MemBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 * 1024 {
            write!(f, "{:.2}GiB", self.as_gib_f64())
        } else if self.0 >= 1024 * 1024 {
            write!(f, "{:.2}MiB", self.as_mib_f64())
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

impl Add for MemBytes {
    type Output = MemBytes;
    fn add(self, rhs: MemBytes) -> MemBytes {
        MemBytes(self.0 + rhs.0)
    }
}

impl AddAssign for MemBytes {
    fn add_assign(&mut self, rhs: MemBytes) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for MemBytes {
    type Output = MemBytes;
    fn mul(self, rhs: u64) -> MemBytes {
        MemBytes(self.0 * rhs)
    }
}

impl Sum for MemBytes {
    fn sum<I: Iterator<Item = MemBytes>>(iter: I) -> MemBytes {
        MemBytes(iter.map(|v| v.0).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic_roundtrips() {
        let t = SimTime::from_millis(3);
        assert_eq!(t.as_nanos(), 3_000_000);
        let t2 = t + SimDuration::from_micros(250);
        assert_eq!((t2 - t).as_micros_f64(), 250.0);
        assert_eq!(
            t2.saturating_since(SimTime::from_secs(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_scaling_and_sum() {
        let d = SimDuration::from_micros(100);
        assert_eq!(d.mul_f64(2.5), SimDuration::from_micros(250));
        assert_eq!(d * 3, SimDuration::from_micros(300));
        assert_eq!(d / 4, SimDuration::from_micros(25));
        let total: SimDuration = vec![d, d, d].into_iter().sum();
        assert_eq!(total, SimDuration::from_micros(300));
    }

    #[test]
    fn duration_from_floats_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_nanos(), 1_500_000);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn membytes_units() {
        assert_eq!(MemBytes::from_mib(1).as_bytes(), 1 << 20);
        assert_eq!(MemBytes::from_gib(1).as_gib_f64(), 1.0);
        assert_eq!(
            MemBytes::from_mib(3) + MemBytes::from_mib(1),
            MemBytes::from_mib(4)
        );
        assert_eq!(
            MemBytes::from_mib(1).saturating_sub(MemBytes::from_gib(1)),
            MemBytes::ZERO
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Watts(125.0)), "125.00W");
        assert_eq!(format!("{}", MemBytes::from_bytes(12)), "12B");
    }

    #[test]
    fn qps_ordering() {
        assert!(Qps(10.0) < Qps(20.0));
        assert_eq!(Qps(10.0).max(Qps(20.0)), Qps(20.0));
        assert_eq!(Qps(10.0).min(Qps(20.0)), Qps(10.0));
    }
}
